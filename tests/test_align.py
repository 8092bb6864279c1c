import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import alignment_objective, brute_force_align
from s2a.align import AlignmentMap, align_notes
from s2a.midi_io import NoteEvent, NoteSequence


def seq_of(notes, ppq=96):
    return NoteSequence(ppq=ppq, notes=tuple(notes))


def simple_seq(pitches, spacing=96):
    return seq_of(NoteEvent(i * spacing, 48, p, 70) for i, p in enumerate(pitches))


class TestAlignNotes:
    def test_self_alignment_is_identity(self):
        seq = simple_seq([60, 64, 67, 60, 72])
        result = align_notes(seq, seq)
        assert result.pairs == tuple((i, i) for i in range(5))
        assert result.unmatched_score == ()
        assert result.unmatched_perf == ()

    def test_deleted_note_goes_unmatched(self):
        score = simple_seq([60, 62, 64, 65, 67])
        perf = seq_of(
            NoteEvent(i * 96, 48, p, 70)
            for i, p in enumerate([60, 62, 65, 67])
        )
        result = align_notes(score, perf)
        assert result.unmatched_score == (2,)
        assert result.unmatched_perf == ()
        assert len(result.pairs) == 4

    def test_empty_inputs_all_unmatched(self):
        seq = simple_seq([60, 64])
        empty = seq_of([])
        result = align_notes(seq, empty)
        assert result.pairs == ()
        assert result.unmatched_score == (0, 1)
        result = align_notes(empty, seq)
        assert result.unmatched_perf == (0, 1)

    def test_different_pitches_never_match(self):
        result = align_notes(simple_seq([60]), simple_seq([61]))
        assert result.pairs == ()

    def test_repeated_pitch_prefers_closer_onsets(self):
        score = simple_seq([60, 60], spacing=96)
        # performance has only one 60, closer to the second score note
        perf = seq_of([NoteEvent(96, 48, 60, 70)])
        result = align_notes(score, perf)
        assert result.pairs == ((1, 0),)

    def test_tie_prefers_a_match_to_skipping_the_performance_note(self):
        perf = seq_of([NoteEvent(0, 48, 60, 70), NoteEvent(0, 48, 60, 70)])
        assert align_notes(simple_seq([60]), perf).pairs == ((0, 1),)

    def test_tie_prefers_skipping_the_score_note_to_skipping_the_performance_note(self):
        # either single match costs one beat; the traceback first drops score note 1
        perf = seq_of([NoteEvent(0, 48, 62, 70), NoteEvent(96, 48, 60, 70)])
        assert align_notes(simple_seq([60, 62]), perf).pairs == ((0, 1),)


def jittered_performance(score, rng, jitter_frac=0.2):
    """Performance with onsets jittered by at most jitter_frac of the local
    IOI (chords move together), velocities re-rolled. Returns the perf and
    the ground-truth score-index -> perf-index mapping."""
    onsets = sorted({n.onset_ticks for n in score.notes})
    jittered = {}
    for k, onset in enumerate(onsets):
        prev_gap = onset - onsets[k - 1] if k > 0 else None
        next_gap = onsets[k + 1] - onset if k + 1 < len(onsets) else None
        local = min(g for g in (prev_gap, next_gap) if g is not None) if (prev_gap or next_gap) else 0
        amount = int(local * jitter_frac)
        jittered[onset] = onset + rng.randint(-amount, amount) if amount else onset
    perf_notes = []
    for note in score.notes:
        perf_notes.append(
            NoteEvent(
                max(0, jittered[note.onset_ticks]),
                note.duration_ticks,
                note.pitch,
                rng.randrange(1, 128),
                note.channel,
            )
        )
    # canonical order is preserved: jitter cannot reorder distinct onsets
    # (<= 20% of the gap from each side) and chords share one shift
    perf = NoteSequence(ppq=score.ppq, notes=tuple(perf_notes))
    assert [n.pitch for n in perf.notes] == [n.pitch for n in score.notes]
    return perf


def random_score(rng, n_notes, chord_prob=0.25):
    notes = []
    onset = 0
    for i in range(n_notes):
        if i > 0 and rng.random() >= chord_prob:
            onset += rng.randrange(24, 192)
        notes.append(NoteEvent(onset, rng.randrange(24, 96), rng.randrange(40, 90), 60))
    return seq_of(notes)


def test_jittered_alignment_fully_correct():
    rng = random.Random(202)
    for _ in range(30):
        score = random_score(rng, rng.randrange(5, 60))
        perf = jittered_performance(score, rng, jitter_frac=0.1)
        result = align_notes(score, perf)
        assert result.pairs == tuple((i, i) for i in range(len(score.notes)))


def test_matches_brute_force_on_short_sequences():
    rng = random.Random(77)
    for _ in range(60):
        score = random_score(rng, rng.randrange(1, 6), chord_prob=0.3)
        # performance: random edits - drop notes, jitter, transpose a few
        perf_notes = []
        for note in score.notes:
            roll = rng.random()
            if roll < 0.2:
                continue
            pitch = note.pitch if roll < 0.85 else min(108, note.pitch + 1)
            perf_notes.append(
                NoteEvent(
                    max(0, note.onset_ticks + rng.randint(-10, 10)),
                    note.duration_ticks,
                    pitch,
                    60,
                )
            )
        perf = seq_of(perf_notes)
        if not perf.notes:
            continue
        result = align_notes(score, perf)
        best, optima = brute_force_align(score, perf)
        achieved = alignment_objective(score, perf, result)
        assert achieved[0] == best[0]
        assert abs(achieved[1] - best[1]) < 1e-12
        assert result.pairs in optima


def test_equal_match_counts_tie_break_on_onset_distance():
    # two performance 61s, 1 and 0 beats from the score's: the closer one wins
    score = seq_of([NoteEvent(192, 48, 61, 60)])
    perf = seq_of(NoteEvent(t, 48, p, 60) for t, p in ((0, 50), (0, 52), (96, 61), (192, 61)))
    assert align_notes(score, perf).pairs == ((0, 3),)


@st.composite
def short_sequence(draw, pitches):
    ppq = draw(st.sampled_from([7, 96, 384, 480]))
    notes = draw(st.lists(st.builds(NoteEvent, st.integers(0, 4 * ppq), st.just(1),
                                    st.sampled_from(pitches), st.just(60)), max_size=7))
    return seq_of(notes, ppq)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reaches_the_exact_optimum(data):
    pitches = list(range(60, 60 + data.draw(st.integers(1, 4))))
    score, perf = data.draw(short_sequence(pitches)), data.draw(short_sequence(pitches))
    result = align_notes(score, perf)
    best, optima = brute_force_align(score, perf)
    assert alignment_objective(score, perf, result) == best
    assert result.pairs in optima


class TestInvariants:
    def test_crossing_freedom_and_pitch_equality(self):
        rng = random.Random(11)
        for _ in range(40):
            score = random_score(rng, rng.randrange(2, 30))
            perf = jittered_performance(score, rng)
            result = align_notes(score, perf)
            for (i, j), (i2, j2) in zip(result.pairs, result.pairs[1:]):
                assert i < i2 and j < j2
            for i, j in result.pairs:
                assert score.notes[i].pitch == perf.notes[j].pitch

    def test_every_index_appears_once(self):
        rng = random.Random(12)
        score = random_score(rng, 20)
        perf = random_score(rng, 18)
        result = align_notes(score, perf)
        s_seen = sorted([i for i, _ in result.pairs] + list(result.unmatched_score))
        p_seen = sorted([j for _, j in result.pairs] + list(result.unmatched_perf))
        assert s_seen == list(range(20))
        assert p_seen == list(range(18))


def test_alignment_json_round_trip():
    amap = AlignmentMap(pairs=((0, 0), (2, 1)), unmatched_score=(1,), unmatched_perf=())
    again = AlignmentMap.from_json(amap.to_json())
    assert again == amap


@pytest.mark.parametrize("text", [
    '{"pairs": [[0.9, 1.5]], "unmatched_score": [], "unmatched_perf": []}',
    '{"pairs": [[0, 1.0]], "unmatched_score": [], "unmatched_perf": []}',
    '{"pairs": [[true, 2]], "unmatched_score": [], "unmatched_perf": []}',
    '{"pairs": [], "unmatched_score": ["3"], "unmatched_perf": []}',
    '{"pairs": [], "unmatched_score": [], "unmatched_perf": [false]}',
    '{"pairs": [], "unmatched_score": "01", "unmatched_perf": []}',
    '{"pairs": [[0, 0]], "unmatched_score": [0], "unmatched_perf": []}',
    '{"pairs": [[0, 0]], "unmatched_score": [], "unmatched_perf": [0]}',
    '{"pairs": [], "unmatched_score": [1, 1], "unmatched_perf": []}',
    '{"pairs": [], "unmatched_score": [], "unmatched_perf": [-1]}',
], ids=["float-pair", "integral-float", "bool-pair", "numeric-string", "bool-unmatched",
        "string-list", "score-index-twice", "perf-index-twice", "unmatched-twice",
        "negative-unmatched"])
def test_alignment_json_rejects_non_integers_and_repeats(text):
    with pytest.raises(ValueError):
        AlignmentMap.from_json(text)
