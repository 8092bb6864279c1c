import numpy as np

from s2a.align import AlignmentMap
from s2a.corpus import DEFAULT_PROFILES, build_training_pairs, perform_score
from s2a.midi_io import NoteEvent, NoteSequence, TempoEvent, TimeSignatureEvent


def score_with_maps() -> NoteSequence:
    return NoteSequence(
        ppq=96,
        notes=tuple(NoteEvent(48 * i, 48, 60 + i, 60) for i in range(6)),
        tempi=(TempoEvent(0, 500000), TempoEvent(96, 450000)),
        time_signatures=(TimeSignatureEvent(0, 3, 2), TimeSignatureEvent(288, 5, 3)),
        sustain_events=((0, 127), (100, 0)),
    )


def test_perform_score_drops_sustain_and_keeps_the_maps():
    score = score_with_maps()
    perf = perform_score(score, DEFAULT_PROFILES[0], np.random.default_rng(0))
    assert len(perf.notes) == len(score.notes)
    assert perf.ppq == score.ppq
    assert perf.tempi == score.tempi
    assert perf.time_signatures == score.time_signatures
    assert perf.sustain_events == ()


def test_build_training_pairs_of_no_pairs_is_empty():
    score = score_with_maps()
    unmatched = tuple(range(len(score.notes)))
    assert build_training_pairs(score, score, AlignmentMap((), unmatched, unmatched), 1) == []
