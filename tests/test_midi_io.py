import random
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import scalar_ticks_to_seconds
from s2a.midi_io import (
    NoteEvent,
    NoteSequence,
    SMFParseError,
    SMFWarning,
    TempoEvent,
    TimeSignatureEvent,
    parse_smf,
    resample_grid,
    ticks_to_seconds,
    write_smf,
)


def vlq(value):
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def smf(tracks, fmt=1, ppq=480):
    data = struct.pack(">4sIHHH", b"MThd", 6, fmt, len(tracks), ppq)
    for events in tracks:
        body = b"".join(events) + vlq(0) + b"\xff\x2f\x00"
        data += struct.pack(">4sI", b"MTrk", len(body)) + body
    return data


class TestParse:
    def test_single_note_hand_built(self):
        # tempo 500000, note-on pitch 60 vel 80 @0, note-off @480
        track = [
            vlq(0) + b"\xff\x51\x03" + (500000).to_bytes(3, "big"),
            vlq(0) + bytes([0x90, 60, 80]),
            vlq(480) + bytes([0x80, 60, 0]),
        ]
        seq = parse_smf(smf([track], fmt=0, ppq=480))
        assert seq.ppq == 480
        assert seq.notes == (NoteEvent(0, 480, 60, 80, 0),)
        assert seq.tempi == (TempoEvent(0, 500000),)

    def test_empty_track_list(self):
        seq = parse_smf(smf([]))
        assert seq.notes == ()

    def test_tempo_only(self):
        track = [vlq(0) + b"\xff\x51\x03" + (480000).to_bytes(3, "big")]
        seq = parse_smf(smf([track]))
        assert seq.notes == ()
        assert seq.tempi == (TempoEvent(0, 480000),)

    def test_velocity_zero_note_on_is_note_off(self):
        track = [
            vlq(0) + bytes([0x90, 64, 100]),
            vlq(120) + bytes([0x90, 64, 0]),
        ]
        seq = parse_smf(smf([track]))
        assert seq.notes == (NoteEvent(0, 120, 64, 100, 0),)

    def test_running_status(self):
        track = [
            vlq(0) + bytes([0x90, 60, 80]),
            vlq(0) + bytes([64, 80]),  # running status: second note-on
            vlq(240) + bytes([60, 0]),  # running status note-offs
            vlq(0) + bytes([64, 0]),
        ]
        seq = parse_smf(smf([track]))
        assert len(seq.notes) == 2
        assert {n.pitch for n in seq.notes} == {60, 64}

    def test_overlapping_same_pitch_fifo(self):
        track = [
            vlq(0) + bytes([0x90, 60, 50]),
            vlq(100) + bytes([0x90, 60, 70]),
            vlq(50) + bytes([0x80, 60, 0]),
            vlq(100) + bytes([0x80, 60, 0]),
        ]
        seq = parse_smf(smf([track]))
        assert seq.notes == (
            NoteEvent(0, 150, 60, 50, 0),
            NoteEvent(100, 150, 60, 70, 0),
        )

    def test_sustain_captured(self):
        track = [
            vlq(0) + bytes([0xB0, 64, 127]),
            vlq(300) + bytes([0xB0, 64, 0]),
        ]
        seq = parse_smf(smf([track]))
        assert seq.sustain_events == ((0, 127), (300, 0))

    def test_tracks_merged_by_tick(self):
        t1 = [vlq(100) + bytes([0x90, 70, 90]), vlq(100) + bytes([0x80, 70, 0])]
        t2 = [vlq(0) + bytes([0x90, 50, 90]), vlq(50) + bytes([0x80, 50, 0])]
        seq = parse_smf(smf([t1, t2]))
        assert [n.pitch for n in seq.notes] == [50, 70]

    def test_same_tick_events_merge_in_track_order(self):
        # the note-on in track 0 and its note-off in track 1 share tick 100;
        # taking the note-off first would leave the note open at end of file
        t0 = [vlq(100) + bytes([0x90, 60, 80])]
        t1 = [vlq(100) + bytes([0x80, 60, 0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seq = parse_smf(smf([t0, t1]))
        assert seq.notes == (NoteEvent(100, 1, 60, 80),)

    def test_later_track_meta_events_win_at_one_tick(self):
        conductor = [vlq(0) + b"\xff\x51\x03" + (500000).to_bytes(3, "big"),
                     vlq(0) + b"\xff\x58\x04\x04\x02\x18\x08",
                     vlq(480) + b"\xff\x51\x03" + (400000).to_bytes(3, "big")]
        t1 = [vlq(0) + b"\xff\x51\x03" + (600000).to_bytes(3, "big"),
              vlq(0) + b"\xff\x58\x04\x03\x02\x18\x08",
              vlq(200) + bytes([0xB0, 64, 127]), vlq(100) + bytes([0xB0, 64, 0])]
        t2 = [vlq(100) + bytes([0xB0, 64, 100]), vlq(150) + bytes([0xB0, 64, 20])]
        seq = parse_smf(smf([conductor, t1, t2]))
        assert seq.tempi == (TempoEvent(0, 600000), TempoEvent(480, 400000))
        assert seq.time_signatures == (TimeSignatureEvent(0, 3, 2),)
        assert seq.sustain_events == ((100, 100), (200, 127), (250, 20), (300, 0))

    def test_unmatched_note_on_closed_at_final_tick(self):
        track = [
            vlq(0) + bytes([0x90, 60, 80]),
            vlq(960) + bytes([0x90, 72, 80]),
            vlq(0) + bytes([0x80, 72, 0]),
        ]
        with pytest.warns(SMFWarning):
            seq = parse_smf(smf([track]))
        open_note = [n for n in seq.notes if n.pitch == 60][0]
        assert open_note.duration_ticks == 960

    def test_bad_header_reports_offset(self):
        with pytest.raises(SMFParseError) as err:
            parse_smf(b"RIFF" + b"\x00" * 20)
        assert err.value.offset == 0

    def test_header_length_below_6_rejected(self):
        data = smf([])
        with pytest.raises(SMFParseError, match=r"^MThd length 5 < 6") as err:
            parse_smf(data[:4] + struct.pack(">I", 5) + data[8:])
        assert err.value.offset == 4

    def test_five_byte_delta_rejected(self):
        with pytest.raises(SMFParseError, match="^variable-length quantity longer than 4 bytes"):
            parse_smf(smf([[b"\x81\x80\x80\x80\x00" + bytes([0x90, 60, 80])]]))

    def test_unsupported_system_message_reports_offset(self):
        data = smf([[vlq(0) + bytes([0xF1, 0x00])]])
        with pytest.raises(SMFParseError, match="^unsupported system message 0xF1") as err:
            parse_smf(data)
        assert data[err.value.offset] == 0xF1

    def test_format_2_rejected(self):
        with pytest.raises(SMFParseError):
            parse_smf(smf([], fmt=2))

    def test_truncated_track_reports_offset(self):
        data = smf([[vlq(0) + bytes([0x90, 60, 80])]])
        with pytest.raises(SMFParseError):
            parse_smf(data[:-4])

    def test_offset_counts_from_start_of_file(self):
        # MThd (14 bytes) + MTrk header (8) + a 3-byte body ending inside a note-on
        data = struct.pack(">4sIHHH", b"MThd", 6, 0, 1, 96)
        data += struct.pack(">4sI", b"MTrk", 3) + bytes([0x00, 0x90, 60])
        assert len(data) == 25
        with pytest.raises(SMFParseError, match=r"wanted 2 bytes\) \(byte offset 24\)") as err:
            parse_smf(data)
        assert err.value.offset == 24

    @pytest.mark.parametrize("events, bad", [
        ([bytes([0x90, 60, 169])], 169),  # note-on velocity 80 with its high bit flipped
        ([bytes([0x90, 0xBC, 80])], 0xBC),  # note-on pitch
        ([bytes([0x80, 60, 0x80])], 0x80),  # note-off velocity
        ([bytes([0xB0, 64, 0xFF])], 0xFF),  # sustain controller value
        ([bytes([0xC0, 0x85])], 0x85),  # program change, one data byte
        ([bytes([0x90, 60, 80]), bytes([62, 0xC8])], 0xC8),  # under running status
    ])
    def test_high_bit_data_byte_reports_offset(self, events, bad):
        data = smf([[vlq(0) + event for event in events]])
        with pytest.raises(SMFParseError) as err:
            parse_smf(data)
        end_of_track = 4
        assert data[err.value.offset] == bad
        assert err.value.offset >= len(data) - end_of_track - len(events[-1])

    @pytest.mark.parametrize("meta", [
        b"\xff\x51\x03\x00\x00\x00",  # tempo of 0 us per quarter
        b"\xff\x58\x04\x00\x02\x18\x08",  # time signature 0/4
        b"\xff\x58\x04\x04\x07\x18\x08",  # time signature 4/128
    ])
    def test_out_of_range_meta_payload_rejected(self, meta):
        with pytest.raises(SMFParseError):
            parse_smf(smf([[vlq(0) + meta]]))


class TestWrite:
    def test_round_trip_one_note(self):
        seq = NoteSequence(
            ppq=480,
            notes=(NoteEvent(0, 480, 60, 80, 0),),
            tempi=(TempoEvent(0, 500000),),
        )
        again = parse_smf(write_smf(seq))
        assert again.notes == seq.notes
        assert again.tempi == seq.tempi
        assert again.ppq == 480

    def test_round_trip_empty(self):
        seq = NoteSequence(ppq=96)
        again = parse_smf(write_smf(seq))
        assert again.notes == ()

    def test_no_running_status_on_output(self):
        seq = NoteSequence(
            ppq=96,
            notes=(NoteEvent(0, 10, 60, 80), NoteEvent(0, 10, 64, 80)),
        )
        data = write_smf(seq)
        # every channel event in the note track is a full 3-byte message
        assert data.count(bytes([0x90, 60, 80])) == 1
        assert data.count(bytes([0x90, 64, 80])) == 1

    def test_tick_overflow_errors(self):
        seq = NoteSequence(ppq=96, notes=(NoteEvent(0x10000000, 1, 60, 80),))
        with pytest.raises(ValueError):
            write_smf(seq)

    def test_widest_tempo_and_numerator_round_trip(self):
        """The file stores a tempo in 3 bytes and a numerator in 1."""
        seq = NoteSequence(ppq=96, tempi=(TempoEvent(0, 2**24 - 1),),
                           time_signatures=(TimeSignatureEvent(0, 255, 6),))
        again = parse_smf(write_smf(seq))
        assert (again.tempi, again.time_signatures) == (seq.tempi, seq.time_signatures)

    @pytest.mark.parametrize("us", [0, -1, 2**24, 2**31])
    def test_tempo_the_file_cannot_hold_rejected(self, us):
        """A tempo of 2**24 us or more used to pass and make write_smf raise
        OverflowError."""
        with pytest.raises(ValueError, match=r"^microseconds_per_quarter must be in 1\.\.16777215"):
            TempoEvent(0, us)

    @pytest.mark.parametrize("numerator", [0, -3, 256, 1000])
    def test_numerator_the_file_cannot_hold_rejected(self, numerator):
        """A numerator above 255 used to pass and make write_smf raise
        'bytes must be in range(0, 256)'."""
        with pytest.raises(ValueError, match=r"^numerator must be in 1\.\.255"):
            TimeSignatureEvent(0, numerator, 2)

    @pytest.mark.parametrize("make, message", [
        (lambda: NoteEvent(0, 0, 60, 80), r"^duration_ticks must be >= 1, got 0$"),
        (lambda: NoteEvent(0, 1, 60, 0), r"^velocity must be in 1\.\.127, got 0$"),
        (lambda: NoteEvent(0, 1, 60, 80, channel=16), r"^channel must be in 0\.\.15, got 16$"),
        (lambda: TimeSignatureEvent(0, 4, 7), r"^denominator_log2 must be in 0\.\.6$"),
    ], ids=["duration-0", "velocity-0", "channel-16", "denominator-128"])
    def test_event_the_file_cannot_hold_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_widest_ppq_and_sustain_values_round_trip(self):
        """The header stores ppq in 15 bits; a sustain value is one data byte."""
        seq = NoteSequence(ppq=32767, sustain_events=((0, 127), (5, 0)))
        again = parse_smf(write_smf(seq))
        assert (again.ppq, again.sustain_events) == (seq.ppq, seq.sustain_events)

    @pytest.mark.parametrize("ppq", [0, -1, 32768, 70000])
    def test_ppq_the_header_cannot_hold_rejected(self, ppq):
        """ppq 32768 used to write a header that parse_smf reads as SMPTE
        time division, and 70000 made write_smf raise struct.error."""
        with pytest.raises(ValueError, match=r"^ppq must be in 1\.\.32767"):
            NoteSequence(ppq=ppq)

    @pytest.mark.parametrize("value", [-1, 128, 200, 1.5, True])
    def test_sustain_value_the_file_cannot_hold_rejected(self, value):
        """A value of 200 used to write a data byte that parse_smf rejects,
        and 1.5 made write_smf raise TypeError."""
        with pytest.raises(ValueError, match=r"^sustain values must be ints in 0\.\.127"):
            NoteSequence(ppq=96, sustain_events=((0, value),))


class TestSubset:
    def test_drops_sustain_and_keeps_the_maps(self):
        seq = NoteSequence(
            ppq=480,
            notes=(NoteEvent(0, 10, 60, 80), NoteEvent(5, 10, 62, 81), NoteEvent(9, 10, 64, 82)),
            tempi=(TempoEvent(0, 500000), TempoEvent(7, 400000)),
            time_signatures=(TimeSignatureEvent(0, 3, 2), TimeSignatureEvent(960, 6, 3)),
            sustain_events=((0, 127), (8, 0)),
        )
        out = seq.subset([2, 0])
        assert out == NoteSequence(ppq=480, notes=(seq.notes[0], seq.notes[2]),
                                   tempi=seq.tempi, time_signatures=seq.time_signatures)
        assert out.sustain_events == ()


def random_sequence(rng, max_notes=40):
    """Random NoteSequence whose same-pitch notes never overlap, so FIFO
    pairing round-trips exactly."""
    ppq = rng.choice([96, 120, 480])
    n = rng.randrange(0, max_notes)
    busy_until = {}
    notes = []
    tick = 0
    for _ in range(n):
        tick += rng.randrange(0, 2 * ppq)
        pitch = rng.randrange(21, 109)
        channel = rng.randrange(0, 2)
        start = max(tick, busy_until.get((channel, pitch), 0))
        duration = rng.randrange(1, 3 * ppq)
        busy_until[(channel, pitch)] = start + duration
        notes.append(NoteEvent(start, duration, pitch, rng.randrange(1, 128), channel))
    tempi = [TempoEvent(0, rng.randrange(200000, 1200000))]
    for _ in range(rng.randrange(0, 3)):
        tempi.append(TempoEvent(rng.randrange(1, 4000), rng.randrange(200000, 1200000)))
    sigs = [TimeSignatureEvent(0, rng.choice([2, 3, 4, 6]), rng.choice([1, 2, 3]))]
    sustain = tuple(
        (rng.randrange(0, 4000), rng.randrange(0, 128)) for _ in range(rng.randrange(0, 4))
    )
    return NoteSequence(
        ppq=ppq,
        notes=tuple(notes),
        tempi=tuple(tempi),
        time_signatures=tuple(sigs),
        sustain_events=sustain,
    )


def test_parse_write_identity_property():
    rng = random.Random(1234)
    for _ in range(200):
        seq = random_sequence(rng)
        again = parse_smf(write_smf(seq))
        assert again.ppq == seq.ppq
        assert again.notes == seq.notes
        assert again.tempi == seq.tempi
        assert again.time_signatures == seq.time_signatures
        assert again.sustain_events == seq.sustain_events


class TestTicksToSeconds:
    def test_definition_of_tempo(self):
        seq = NoteSequence(ppq=480, tempi=(TempoEvent(0, 500000),))
        assert ticks_to_seconds(seq, np.array([480])).tolist() == pytest.approx([0.5])

    def test_tick_zero(self):
        seq = NoteSequence(ppq=480)
        assert ticks_to_seconds(seq, np.array([0])).tolist() == [0.0]

    def test_two_tempo_spans(self):
        seq = NoteSequence(
            ppq=480,
            tempi=(TempoEvent(0, 500000), TempoEvent(480, 250000)),
        )
        assert ticks_to_seconds(seq, np.array([960])).tolist() == pytest.approx([0.75])

    def test_default_tempo_when_absent(self):
        seq = NoteSequence(ppq=480)
        assert ticks_to_seconds(seq, np.array([480])).tolist() == pytest.approx([0.5])

    def test_monotone_property(self):
        rng = random.Random(7)
        for _ in range(50):
            seq = random_sequence(rng)
            ticks = sorted(rng.randrange(0, 10000) for _ in range(20))
            secs = ticks_to_seconds(seq, np.array(ticks)).tolist()
            assert all(a <= b for a, b in zip(secs, secs[1:]))


def outcome(fn, *args):
    """fn's value, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def tempo_maps(draw):
    """A ppq, a map of 0-6 tempo events (negative ticks included) and ticks
    placed on, next to and between its events, some of them negative."""
    ppq = draw(st.integers(1, 960))
    events = draw(st.lists(st.tuples(st.integers(-50, 5000), st.integers(1, 0xFFFFFF)),
                           max_size=6))
    seq = NoteSequence(ppq=ppq, tempi=tuple(TempoEvent(t, us) for t, us in events))
    near = [t + d for t, _ in events for d in (-1, 0, 1)]
    ticks = draw(st.lists(st.sampled_from(near) if near else st.integers(0, 5000), max_size=12))
    return seq, ticks + draw(st.lists(st.integers(-3, 20000), max_size=12))


class TestTicksToSecondsOracle:
    @settings(max_examples=300, deadline=None)
    @given(tempo_maps())
    @example((NoteSequence(ppq=7, tempi=(TempoEvent(-3, 1), TempoEvent(5, 0xFFFFFF))),
              [0, 4, 5, 6, -1]))
    def test_equals_the_tempo_walk(self, case):
        seq, ticks = case
        want = [outcome(scalar_ticks_to_seconds, seq, t) for t in ticks]
        one_each = [outcome(lambda t: ticks_to_seconds(seq, np.array([t])).item(), t)
                    for t in ticks]
        assert one_each == want
        if all(t >= 0 for t in ticks):
            got = ticks_to_seconds(seq, np.array(ticks, dtype=np.int64))
            assert got.dtype == np.float64 and got.tolist() == want
        else:
            assert (outcome(ticks_to_seconds, seq, np.array(ticks))
                    == (ValueError, "tick must be >= 0"))


class TestResampleGrid:
    def test_exact_ratio(self):
        seq = NoteSequence(ppq=480, notes=(NoteEvent(480, 480, 60, 80),))
        out = resample_grid(seq)
        assert out.notes[0].onset_ticks == 96
        assert out.ppq == 96

    def test_round_half_up(self):
        seq = NoteSequence(ppq=480, notes=(NoteEvent(479, 480, 60, 80),))
        out = resample_grid(seq)
        assert out.notes[0].onset_ticks == 96  # round(95.8)

    def test_duration_clamped_to_one(self):
        seq = NoteSequence(ppq=480, notes=(NoteEvent(0, 1, 60, 80),))
        out = resample_grid(seq)
        assert out.notes[0].duration_ticks == 1

    def test_down_scale_fixed_events(self):
        """ppq 1000: tempo ticks 4166 and 4170 both land on 400, where the
        later one is kept."""
        seq = NoteSequence(
            ppq=1000,
            notes=(NoteEvent(0, 5, 60, 80), NoteEvent(1005, 994, 62, 70, 1),
                   NoteEvent(2604, 1, 64, 90), NoteEvent(5208, 15621, 67, 100, 9)),
            tempi=(TempoEvent(0, 500000), TempoEvent(1005, 400000), TempoEvent(4166, 600000),
                   TempoEvent(4170, 0xFFFFFF), TempoEvent(9999, 1)),
            time_signatures=(TimeSignatureEvent(0, 4, 2), TimeSignatureEvent(3120, 3, 3),
                             TimeSignatureEvent(7005, 255, 0), TimeSignatureEvent(7015, 7, 6)),
            sustain_events=((5, 127), (2604, 0), (7010, 64)),
        )
        out = resample_grid(seq)
        assert out.ppq == 96
        assert out.notes == (NoteEvent(0, 1, 60, 80), NoteEvent(96, 95, 62, 70, 1),
                             NoteEvent(250, 1, 64, 90), NoteEvent(500, 1500, 67, 100, 9))
        assert out.tempi == (TempoEvent(0, 500000), TempoEvent(96, 400000),
                             TempoEvent(400, 0xFFFFFF), TempoEvent(960, 1))
        assert out.time_signatures == (TimeSignatureEvent(0, 4, 2), TimeSignatureEvent(300, 3, 3),
                                       TimeSignatureEvent(672, 255, 0),
                                       TimeSignatureEvent(673, 7, 6))
        assert out.sustain_events == ((0, 127), (250, 0), (673, 64))

    def test_up_scale_fixed_events(self):
        seq = NoteSequence(
            ppq=7,
            notes=(NoteEvent(0, 1, 21, 1), NoteEvent(3, 2, 108, 127, 15)),
            tempi=(TempoEvent(1, 250000), TempoEvent(5, 750000), TempoEvent(12, 123457)),
            time_signatures=(TimeSignatureEvent(2, 5, 1), TimeSignatureEvent(9, 2, 4)),
            sustain_events=((4, 1), (11, 0)),
        )
        out = resample_grid(seq)
        assert out.ppq == 96
        assert out.notes == (NoteEvent(0, 14, 21, 1), NoteEvent(41, 27, 108, 127, 15))
        assert out.tempi == (TempoEvent(14, 250000), TempoEvent(69, 750000),
                             TempoEvent(165, 123457))
        assert out.time_signatures == (TimeSignatureEvent(27, 5, 1),
                                       TimeSignatureEvent(123, 2, 4))
        assert out.sustain_events == ((55, 1), (151, 0))

    def test_on_grid_is_unchanged(self):
        rng = random.Random(5)
        for _ in range(20):
            seq = replace(random_sequence(rng), ppq=96)
            doubled = NoteSequence(
                ppq=192,
                notes=tuple(replace(n, onset_ticks=2 * n.onset_ticks,
                                    duration_ticks=2 * n.duration_ticks) for n in seq.notes),
                tempi=tuple(replace(e, tick=2 * e.tick) for e in seq.tempi),
                time_signatures=tuple(replace(e, tick=2 * e.tick) for e in seq.time_signatures),
                sustain_events=tuple((2 * t, v) for t, v in seq.sustain_events),
            )
            assert resample_grid(seq) == seq == resample_grid(doubled)

    def test_preserves_count_pitch_velocity(self):
        rng = random.Random(99)
        for _ in range(50):
            seq = random_sequence(rng)
            out = resample_grid(seq)
            assert len(out.notes) == len(seq.notes)
            # onsets may merge and re-sort within a tick, so compare multisets
            assert sorted((n.pitch, n.velocity) for n in out.notes) == sorted(
                (n.pitch, n.velocity) for n in seq.notes
            )
