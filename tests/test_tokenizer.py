import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import loop_detokenize, loop_tokenize, scalar_bar_and_position, tuple_prepare_batch
from test_midi_io import outcome
from s2a.midi_io import NoteEvent, NoteSequence, TimeSignatureEvent
from s2a.model import prepare_batch
from s2a.tokenizer import (
    FEATURE_NAMES,
    N_SPECIALS,
    PAD,
    PITCH_MAX,
    PITCH_MIN,
    SEGMENT_LEN,
    TokenTuple,
    VocabSpec,
    bar_and_position,
    detokenize,
    dump_tokens,
    load_tokens,
    segment,
    tokenize,
)


def grid_seq(notes, sigs=()):
    return NoteSequence(ppq=96, notes=tuple(notes), time_signatures=tuple(sigs))


class TestVocabSpec:
    def test_table_sizes(self):
        vocab = VocabSpec()
        assert vocab.sizes() == (92, 68, 1156, 772, 388, 3004)

    def test_value_counts(self):
        vocab = VocabSpec()
        assert [vocab.n_values(f) for f in FEATURE_NAMES] == [88, 64, 1152, 768, 384, 3000]


class TestTokenize:
    def test_lowest_note_layout(self):
        seq = grid_seq([NoteEvent(0, 96, 21, 60)])
        (tok,) = tokenize(seq, is_score=False)
        assert tok == TokenTuple(4, 34, 99, 4, 4, 4)

    def test_score_velocity_forced_to_60(self):
        seq = grid_seq([NoteEvent(i * 96, 96, 60, 127) for i in range(4)])
        toks = tokenize(seq, is_score=True)
        assert all(t.velocity_tok == 34 for t in toks)  # 60 -> bin 30

    def test_chord_second_note_ioi_zero(self):
        seq = grid_seq([NoteEvent(96, 48, 60, 80), NoteEvent(96, 48, 64, 80)])
        toks = tokenize(seq, is_score=False)
        assert toks[1].ioi_tok == 4

    def test_pitch_out_of_range_names_note(self):
        seq = grid_seq([NoteEvent(0, 96, 21, 60), NoteEvent(96, 96, 109, 60)])
        with pytest.raises(ValueError, match="note 1"):
            tokenize(seq, is_score=False)

    def test_requires_96_grid(self):
        seq = NoteSequence(ppq=480, notes=(NoteEvent(0, 96, 60, 60),))
        with pytest.raises(ValueError, match="96"):
            tokenize(seq, is_score=False)

    def test_clamping_long_values(self):
        seq = grid_seq(
            [NoteEvent(0, 5000, 60, 80), NoteEvent(4000, 96, 60, 80)]
        )
        toks = tokenize(seq, is_score=False)
        assert toks[0].duration_tok == 4 + 1152 - 1
        assert toks[1].ioi_tok == 4 + 767

    def test_bar_position_in_three_four(self):
        # 3/4 bar = 288 ticks
        seq = grid_seq(
            [NoteEvent(300, 96, 60, 80)],
            sigs=[TimeSignatureEvent(0, 3, 2)],
        )
        (tok,) = tokenize(seq, is_score=False)
        assert tok.bar_tok == 4 + 1
        assert tok.position_tok == 4 + 12


class TestBarAndPosition:
    def test_default_four_four(self):
        seq = grid_seq([])
        assert bar_and_position(seq, 0) == (0, 0)
        assert bar_and_position(seq, 384) == (1, 0)
        assert bar_and_position(seq, 500) == (1, 116)

    def test_signature_change(self):
        # 4/4 for two bars, then 2/4 (192 ticks per bar)
        seq = grid_seq([], sigs=[TimeSignatureEvent(0, 4, 2), TimeSignatureEvent(768, 2, 2)])
        assert bar_and_position(seq, 767) == (1, 383)
        assert bar_and_position(seq, 768) == (2, 0)
        assert bar_and_position(seq, 960) == (3, 0)

    def test_mid_bar_change_counts_partial_bar(self):
        seq = grid_seq([], sigs=[TimeSignatureEvent(0, 4, 2), TimeSignatureEvent(400, 2, 2)])
        assert bar_and_position(seq, 400) == (2, 0)

    def test_onset_before_first_signature_counts_from_it(self):
        seq = grid_seq([], sigs=[TimeSignatureEvent(-10, 3, 2), TimeSignatureEvent(500, 2, 2)])
        assert bar_and_position(seq, -300) == (-2, 286)
        bars, positions = bar_and_position(seq, np.array([-300, -10, 500]))
        assert bars.tolist() == [-2, 0, 2] and positions.tolist() == [286, 0, 0]

    def test_bar_shorter_than_one_tick_rejected(self):
        # ppq 7: a 1/64 bar is 4 * 7 / 64 = 0.44 ticks
        seq = NoteSequence(ppq=7, time_signatures=(TimeSignatureEvent(0, 1, 6),))
        with pytest.raises(ValueError, match="1/64 bar at tick 0 is shorter than one tick at ppq 7"):
            bar_and_position(seq, 10)


class TestDetokenize:
    def test_single_note_inverts(self):
        seq = grid_seq([NoteEvent(0, 96, 21, 61)])
        toks = tokenize(seq, is_score=False)
        out = detokenize(
            [t.pitch_tok for t in toks],
            [t.velocity_tok for t in toks],
            [t.ioi_tok for t in toks],
            [t.duration_tok for t in toks],
        )
        assert out.notes == seq.notes

    def test_all_zero_ioi_single_chord(self):
        out = detokenize([4, 16, 28], [34, 34, 34], [4, 4, 4], [99, 99, 99])
        assert all(n.onset_ticks == 0 for n in out.notes)

    def test_special_token_rejected_with_position(self):
        with pytest.raises(ValueError, match="position 1"):
            detokenize([4, 0], [34, 34], [4, 4], [99, 99])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            detokenize([4], [34, 34], [4, 4], [99, 99])


def random_grid_sequence(rng, max_notes=120):
    """Sequences in the tokenizer round-trip domain: 96-tick grid, first
    onset 0, odd velocities, in-vocabulary IOIs and durations."""
    n = rng.randrange(1, max_notes)
    notes = []
    onset = 0
    for i in range(n):
        if i > 0:
            onset += rng.randrange(0, 768)
        pitch = rng.randrange(21, 109)
        duration = rng.randrange(1, 1153)
        velocity = rng.randrange(0, 64) * 2 + 1
        notes.append(NoteEvent(onset, duration, pitch, velocity))
    return grid_seq(notes)


def test_round_trip_property():
    rng = random.Random(42)
    for _ in range(300):
        seq = random_grid_sequence(rng)
        toks = tokenize(seq, is_score=False)
        out = detokenize(
            [t.pitch_tok for t in toks],
            [t.velocity_tok for t in toks],
            [t.ioi_tok for t in toks],
            [t.duration_tok for t in toks],
        )
        assert out.notes == seq.notes


def test_segment_concatenation_reproduces_piece():
    rng = random.Random(43)
    seq = random_grid_sequence(rng, max_notes=700)
    toks = tokenize(seq, is_score=False)
    segments = segment(toks, performer_id=0)
    rebuilt = []
    for s in segments:
        rebuilt.extend(tuple(row) for row in s.ids[:s.n_real].tolist())
    assert rebuilt == [t.as_tuple() for t in toks]


class TestSegment:
    def test_two_full_windows(self):
        toks = [TokenTuple(4, 4, 4, 4, 4, 4)] * 512
        segs = segment(toks, performer_id=1)
        assert len(segs) == 2
        assert all(s.n_real == SEGMENT_LEN for s in segs)

    def test_single_tuple_padding(self):
        segs = segment([TokenTuple(4, 4, 4, 4, 4, 4)], performer_id=0)
        assert len(segs) == 1
        assert segs[0].n_real == 1
        assert segs[0].ids[1:].tolist() == [[PAD] * 6] * 255

    def test_300_tuples(self):
        toks = [TokenTuple(4 + i % 88, 4, 4, 4, 4, 4) for i in range(300)]
        segs = segment(toks, performer_id=0)
        assert [s.n_real for s in segs] == [256, 44]
        assert [s.ids[:s.n_real].tolist() for s in segs] == [
            [list(t.as_tuple()) for t in toks[start:start + s.n_real]]
            for start, s in zip((0, 256), segs)
        ]

    def test_empty_stream(self):
        assert segment([], performer_id=0) == []


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 700), performer_id=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@example(n=0, performer_id=0, seed=0)
@example(n=256, performer_id=1, seed=1)
@example(n=257, performer_id=2, seed=2)
@example(n=700, performer_id=3, seed=3)
def test_segment_ids_are_the_stream(n, performer_id, seed):
    """Rows in stream order, PAD rows of 0 after n_real, and prepare_batch
    equal to stacking the tuples one at a time."""
    rng = np.random.default_rng(seed)
    toks = [TokenTuple(*row) for row in rng.integers(0, VocabSpec().sizes(), size=(n, 6)).tolist()]
    segs = segment(toks, performer_id)
    starts = range(0, n, SEGMENT_LEN)
    assert [s.n_real for s in segs] == [min(SEGMENT_LEN, n - start) for start in starts]
    for start, s in zip(starts, segs):
        assert s.ids.dtype == np.int64 and s.ids.shape == (SEGMENT_LEN, 6)
        window = toks[start:start + s.n_real]
        assert s.ids[:s.n_real].tolist() == [list(t.as_tuple()) for t in window]
        assert not s.ids[s.n_real:].any()
        assert s.performer_id == performer_id
    if segs:
        got, want = prepare_batch(segs), tuple_prepare_batch(toks, performer_id)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_token_dump_round_trip():
    rng = random.Random(5)
    seq = random_grid_sequence(rng)
    toks = tokenize(seq, is_score=False)
    assert load_tokens(dump_tokens(toks)) == toks
    header = dump_tokens(toks).splitlines()[0]
    assert header == "\t".join(FEATURE_NAMES)


signature = st.builds(TimeSignatureEvent, st.integers(-50, 5000), st.integers(1, 255),
                      st.integers(0, 6))


@st.composite
def meter_maps(draw):
    """A ppq, a map of 0-6 time signatures (negative ticks included) and
    onsets placed on, next to and between its events, some of them negative."""
    ppq = draw(st.integers(1, 960))
    sigs = draw(st.lists(signature, max_size=6))
    near = [sig.tick + d for sig in sigs for d in (-1, 0, 1)]
    onsets = draw(st.lists(st.sampled_from(near) if near else st.integers(-500, 5000),
                           max_size=12))
    onsets += draw(st.lists(st.integers(-500, 50000), max_size=12))
    return NoteSequence(ppq=ppq, time_signatures=tuple(sigs)), onsets


@settings(max_examples=300, deadline=None)
@given(meter_maps())
@example((NoteSequence(ppq=7, time_signatures=(TimeSignatureEvent(0, 4, 2),
                                               TimeSignatureEvent(30, 1, 6))), [0, 29]))
def test_bar_and_position_equals_the_meter_walk(case):
    seq, onsets = case
    sigs = seq.effective_time_signatures()
    if any(sig.numerator * seq.ppq * 4 < sig.denominator for sig in sigs):
        with pytest.raises(ValueError, match="shorter than one tick"):
            bar_and_position(seq, onsets)
        return
    want = [scalar_bar_and_position(seq, onset) for onset in onsets]
    assert [bar_and_position(seq, onset) for onset in onsets] == want
    bars, positions = bar_and_position(seq, np.array(onsets, dtype=np.int64))
    assert list(zip(bars.tolist(), positions.tolist())) == want


note = st.builds(
    NoteEvent,
    onset_ticks=st.one_of(st.integers(-400, 3000), st.integers(1_000_000, 2_000_000)),
    duration_ticks=st.integers(1, 3000),
    pitch=st.integers(PITCH_MIN - 2, PITCH_MAX + 2),
    velocity=st.integers(1, 127),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(note, max_size=40), st.lists(signature, max_size=6), st.booleans(),
       st.sampled_from([96, 96, 480]))
def test_tokenize_equals_the_note_loop(notes, sigs, is_score, ppq):
    """Same tokens, or the same error for the first off-piano note; vocabulary
    edges, negative onsets and bars past the last id included."""
    seq = NoteSequence(ppq=ppq, notes=tuple(notes), time_signatures=tuple(sigs))
    assert outcome(tokenize, seq, is_score) == outcome(loop_tokenize, seq, is_score)


def token_streams(n):
    """Pitch, velocity, IOI and duration ids of n notes; a few pitches land
    past MIDI 127 and a few velocities past the last bin."""
    ranges = ((N_SPECIALS, 115), (N_SPECIALS, 80), (N_SPECIALS, 800), (N_SPECIALS, 1200))
    return st.tuples(*[st.lists(st.integers(lo, hi), min_size=n, max_size=n) for lo, hi in ranges])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 30).flatmap(token_streams),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 29), st.integers(0, N_SPECIALS - 1)),
                max_size=2),
       st.sampled_from([None, None, None, 0, 1, 2, 3]),
       st.lists(signature, max_size=3))
def test_detokenize_equals_the_token_loop(streams, specials, short_stream, sigs):
    """Same notes, or the same error: special tokens, pitches past 127 and
    streams of unequal length."""
    streams = [list(toks) for toks in streams]
    for stream, pos, tok in specials:
        if pos < len(streams[stream]):
            streams[stream][pos] = tok
    if short_stream is not None and streams[short_stream]:
        streams[short_stream].pop()
    sigs = NoteSequence(ppq=96, time_signatures=tuple(sigs)).time_signatures
    assert outcome(detokenize, *streams, sigs) == outcome(loop_detokenize, *streams, sigs)


def test_tokenize_reads_the_meter_map_once():
    """20,000 notes over 5,000 time signatures: one pass over the map, not
    one per note."""
    sigs = [TimeSignatureEvent(384 * k, 2 + k % 5, 2) for k in range(5000)]
    notes = [NoteEvent(96 * i, 96, PITCH_MIN + i % 88, 1 + i % 127) for i in range(20000)]
    seq = grid_seq(notes, sigs)
    start = time.monotonic()
    toks = tokenize(seq, is_score=False)
    assert time.monotonic() - start < 5.0
    assert len(toks) == 20000
