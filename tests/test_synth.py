import inspect
import io
import sys
import threading
import time
import tracemalloc
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    loop_concat_crosscorr,
    loop_segment_audio,
    scalar_render_audio,
    scalar_ticks_to_seconds,
    serial_render_audio,
    whole_array_spectrogram,
)
from s2a.corpus import SyntheticCorpusSpec, generate_corpus
import s2a.synth
from s2a.midi_io import NoteEvent, NoteSequence, TempoEvent, parse_smf
from s2a.parallel import split_work
from s2a.synth import (
    DEFAULT_SAMPLE_RATE,
    FRAME_LEN,
    HOP,
    MAX_AUDIO_SECONDS,
    MAX_SAMPLE_RATE,
    N_HARMONICS,
    PEAK_LEVEL,
    RELEASE_SECONDS,
    Chromagram,
    Spectrogram,
    Waveform,
    check_sample_rate,
    chromagram,
    concat_crosscorr,
    midi_filterbank,
    midi_pitch_hz,
    midi_spectrogram,
    read_wav,
    render_audio,
    segment_audio,
    stitch_segments,
    write_wav,
)


def one_note_seq(pitch=69, seconds=1.0, velocity=127):
    # ppq 96 at 500000 us/q -> 192 ticks per second
    ticks = int(round(seconds * 192))
    return NoteSequence(
        ppq=96,
        notes=(NoteEvent(0, ticks, pitch, velocity),),
        tempi=(TempoEvent(0, 500000),),
    )


class TestRenderAudio:
    def test_empty_sequence(self):
        w = render_audio(NoteSequence(ppq=96))
        assert len(w.samples) == 0

    def test_a4_spectral_peak(self):
        w = render_audio(one_note_seq(pitch=69))
        spectrum = np.abs(np.fft.rfft(w.samples))
        freqs = np.fft.rfftfreq(len(w.samples), 1 / w.sample_rate)
        bin_width = freqs[1] - freqs[0]
        assert abs(freqs[np.argmax(spectrum)] - 440.0) <= bin_width

    def test_velocity_linear_before_normalization(self):
        # normalization divides by the peak, so the shape must be identical
        w32 = render_audio(one_note_seq(velocity=32))
        w64 = render_audio(one_note_seq(velocity=64))
        assert np.allclose(w32.samples, w64.samples, atol=1e-12)
        # and the unnormalized relation is visible through the roll-off of a
        # two-note mix where only one note's velocity doubles
        seq_a = NoteSequence(
            ppq=96,
            notes=(NoteEvent(0, 192, 60, 32), NoteEvent(384, 192, 72, 100)),
            tempi=(TempoEvent(0, 500000),),
        )
        seq_b = NoteSequence(
            ppq=96,
            notes=(NoteEvent(0, 192, 60, 64), NoteEvent(384, 192, 72, 100)),
            tempi=(TempoEvent(0, 500000),),
        )
        a = render_audio(seq_a).samples
        b = render_audio(seq_b).samples
        # during the first note, b is twice a up to the differing global norm
        norm_a = np.max(np.abs(a))
        norm_b = np.max(np.abs(b))
        seg_a = a[2000:4000] / norm_a
        seg_b = b[2000:4000] / norm_b
        assert np.allclose(seg_b, 2 * seg_a, atol=1e-9)

    def test_never_clips(self):
        seq = NoteSequence(
            ppq=96,
            notes=tuple(NoteEvent(0, 192, 50 + i, 127) for i in range(20)),
            tempi=(TempoEvent(0, 500000),),
        )
        w = render_audio(seq)
        assert np.max(np.abs(w.samples)) <= 0.95 + 1e-12

    def test_deterministic(self):
        seq = one_note_seq()
        a = render_audio(seq)
        b = render_audio(seq)
        assert np.array_equal(a.samples, b.samples)

    def test_release_past_the_bound_is_rejected(self):
        # 192 ticks per second: the note ends at the bound, its release 10 ms
        # past it; a low sample rate keeps the render small if it ran
        seq = NoteSequence(
            ppq=96,
            notes=(NoteEvent(MAX_AUDIO_SECONDS * 192 - 1, 1, 60, 64),),
            tempi=(TempoEvent(0, 500000),),
        )
        with pytest.raises(ValueError, match="3600"):
            render_audio(seq, sample_rate=100)

    def test_sample_rate_range_keeps_every_partial_and_fits_a_wav_header(self):
        check_sample_rate(MAX_SAMPLE_RATE)
        with pytest.raises(ValueError, match="sample_rate"):
            check_sample_rate(MAX_SAMPLE_RATE + 1)
        assert 2 * N_HARMONICS * midi_pitch_hz(108) < MAX_SAMPLE_RATE < 2**32

    @pytest.mark.parametrize("sample_rate", [24000.5, 24000.0, True, np.int64(24000)],
                             ids=["float", "whole-float", "bool", "numpy-int"])
    def test_sample_rate_that_is_not_an_int_rejected(self, sample_rate):
        """24000.5 used to render 12,242 samples that write_wav labelled
        24000 Hz, and True 2 samples under a 1 Hz header."""
        seq = NoteSequence(ppq=96, notes=(NoteEvent(0, 96, 60, 80),))
        with pytest.raises(ValueError, match=r"^sample_rate must be in 1\.\."):
            render_audio(seq, sample_rate)


@st.composite
def note_sequences(draw):
    """Few distinct pitches, so notes repeat and overlap on the same pitch;
    at 2000 us per quarter a tick is shorter than a sample, so some notes
    are held for a single sample. The tempo map has 1-4 events, not always
    one at tick 0."""
    ppq = draw(st.sampled_from([96, 480]))
    tempi = draw(st.lists(st.builds(TempoEvent, st.integers(0, 3 * ppq),
                                    st.sampled_from([500000, 2000, 300000])),
                          min_size=1, max_size=4))
    pitches = draw(st.lists(st.integers(0, 127), min_size=1, max_size=4))
    notes = draw(st.lists(
        st.builds(NoteEvent, st.integers(0, 3 * ppq), st.integers(1, 2 * ppq),
                  st.sampled_from(pitches), st.integers(1, 127)),
        max_size=12,
    ))
    return NoteSequence(ppq=ppq, notes=tuple(notes), tempi=tuple(tempi))


class TestRenderAgainstOracle:
    """render_audio computes each pitch's partials once; every sample must
    still equal the note-by-note loop bit for bit."""

    @staticmethod
    def assert_same(seq, sample_rate):
        fast = render_audio(seq, sample_rate)
        slow = scalar_render_audio(seq, sample_rate)
        assert fast.sample_rate == slow.sample_rate
        assert np.array_equal(fast.samples, slow.samples)
        assert write_wav(fast) == write_wav(slow)

    @settings(max_examples=60, deadline=None)
    @given(note_sequences(), st.sampled_from([8000, 11025, 24000]))
    def test_equals_scalar_oracle(self, seq, sample_rate):
        self.assert_same(seq, sample_rate)

    @pytest.mark.parametrize("sample_rate", [8000, 24000])
    @pytest.mark.parametrize("tempo, notes", [
        (500000, ()),
        (500000, (NoteEvent(0, 192, 69, 100),)),
        # repeated and overlapping notes of one pitch, longest not first
        (500000, (NoteEvent(0, 96, 60, 90), NoteEvent(48, 300, 60, 30), NoteEvent(50, 10, 60, 127),
                  NoteEvent(400, 96, 60, 64), NoteEvent(40, 200, 64, 80))),
        # one tick is shorter than one sample: held = 1 / sample_rate
        (2000, (NoteEvent(0, 1, 72, 127), NoteEvent(0, 1, 72, 5), NoteEvent(3, 1, 48, 60))),
        # above 4 kHz every harmonic of these is cut at 8 kHz
        (500000, (NoteEvent(0, 100, 100, 100), NoteEvent(20, 100, 108, 100),
                  NoteEvent(40, 80, 127, 90))),
    ], ids=["empty", "single", "same-pitch-overlap", "one-tick", "high-pitches"])
    def test_fixed_cases(self, tempo, notes, sample_rate):
        self.assert_same(NoteSequence(ppq=96, notes=notes, tempi=(TempoEvent(0, tempo),)),
                         sample_rate)

    def test_corpus_performance(self, tmp_path):
        spec = SyntheticCorpusSpec(n_pieces=1, notes_per_piece=200, n_performers=1, seed=0)
        manifest = generate_corpus(spec, tmp_path)
        seq = parse_smf((tmp_path / manifest["items"][0]["performance"]).read_bytes())
        assert len({n.pitch for n in seq.notes}) < len(seq.notes)
        self.assert_same(seq, 24000)


@st.composite
def octave_stacks(draw):
    """Notes on one or two pitch classes, each over 1-5 octaves, so sine
    tables are shared by pitches in many orders of first and last use."""
    pitches = []
    for base in draw(st.lists(st.integers(21, 32), min_size=1, max_size=2, unique=True)):
        octaves = draw(st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True))
        pitches += [base + 12 * k for k in octaves]
    notes = draw(st.lists(
        st.builds(NoteEvent, st.integers(0, 400), st.integers(1, 400),
                  st.sampled_from(pitches), st.integers(1, 127)),
        min_size=1, max_size=12,
    ))
    return NoteSequence(ppq=96, notes=tuple(notes), tempi=(TempoEvent(0, 500000),))


class TestRenderAgainstSerial:
    """render_audio splits the pitch tables between two threads; every
    sample must equal the one-thread render bit for bit, and no thread may
    outlive the call."""

    @staticmethod
    def assert_same(seq, sample_rate):
        threads = threading.active_count()
        fast = render_audio(seq, sample_rate)
        assert threading.active_count() == threads
        assert np.array_equal(fast.samples, serial_render_audio(seq, sample_rate).samples)

    @pytest.mark.parametrize("sample_rate", [8000, 24000, 44100, 192000])
    @pytest.mark.parametrize("notes", [
        (NoteEvent(0, 192, 69, 100),),
        tuple(NoteEvent(48 * i, 60 + 7 * i, 60, 20 + 9 * i) for i in range(8)),
        # five notes span the middle sample, about tick 480
        (NoteEvent(0, 960, 48, 90), NoteEvent(96, 700, 55, 70), NoteEvent(300, 200, 60, 127),
         NoteEvent(470, 20, 60, 40), NoteEvent(479, 2, 72, 100), NoteEvent(600, 50, 76, 60)),
        # octaves share partials; the tables are as long as their longest user
        (NoteEvent(0, 40, 36, 80), NoteEvent(10, 60, 48, 90), NoteEvent(20, 30, 60, 100),
         NoteEvent(30, 500, 72, 70), NoteEvent(35, 20, 84, 60)),
        (NoteEvent(0, 500, 33, 80), NoteEvent(10, 60, 45, 90), NoteEvent(20, 30, 57, 100),
         NoteEvent(30, 40, 69, 70), NoteEvent(5, 96, 57, 30), NoteEvent(300, 20, 81, 60)),
        # at 8 kHz pitch 108 has no partial below Nyquist and pitch 96 only one
        (NoteEvent(0, 100, 108, 100), NoteEvent(20, 80, 96, 90), NoteEvent(40, 60, 84, 70)),
        (NoteEvent(0, 100, 108, 100),),
    ], ids=["one-note", "one-pitch-repeated", "notes-across-the-split", "octaves-longest-high",
            "octaves-longest-low", "no-partial-next-to-its-octaves", "no-partial-alone"])
    def test_fixed_cases(self, notes, sample_rate):
        self.assert_same(NoteSequence(ppq=96, notes=notes, tempi=(TempoEvent(0, 500000),)),
                         sample_rate)

    def test_corpus(self, tmp_path):
        spec = SyntheticCorpusSpec(n_pieces=2, notes_per_piece=200, n_performers=2, seed=0)
        manifest = generate_corpus(spec, tmp_path)
        for item in manifest["items"]:
            self.assert_same(parse_smf((tmp_path / item["performance"]).read_bytes()), 24000)

    @settings(max_examples=40, deadline=None)
    @given(octave_stacks(), st.sampled_from([8000, 24000]))
    def test_octave_stacks(self, seq, sample_rate):
        self.assert_same(seq, sample_rate)


def test_each_thread_writes_its_own_work_arrays(tmp_path):
    """With thread switches every microsecond, the two threads of
    render_audio and midi_spectrogram still give the one-thread bytes, so
    neither writes the other's work arrays."""
    manifest = generate_corpus(SyntheticCorpusSpec(n_pieces=1, seed=0), tmp_path)
    seq = parse_smf((tmp_path / manifest["items"][0]["performance"]).read_bytes())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        w = render_audio(seq)
        spec = midi_spectrogram(w)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(w.samples, serial_render_audio(seq, DEFAULT_SAMPLE_RATE).samples)
    assert np.array_equal(spec.frames, whole_array_spectrogram(w))


def test_threaded_work_allocates_nothing_note_long(tmp_path, monkeypatch):
    """render_audio and midi_spectrogram allocate every array as long as a
    note or a block of frames before they split the work between threads, so
    how the threads interleave cannot change how much memory is in use. Here
    the items run one at a time, each with its own traced peak. The mix, on
    the calling thread after the split, allocates no array as long as a note
    either: its peak is traced from the split's return to render_audio's."""
    manifest = generate_corpus(SyntheticCorpusSpec(n_pieces=1, seed=0), tmp_path)
    seq = parse_smf((tmp_path / manifest["items"][0]["performance"]).read_bytes())
    calls, returned = [], []

    def one_at_a_time(fn, items):
        calls.append([])
        for item in items:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            fn(item)
            calls[-1].append(tracemalloc.get_traced_memory()[1] - start)
        tracemalloc.reset_peak()
        returned.append(tracemalloc.get_traced_memory()[0])

    monkeypatch.setattr(s2a.synth, "split_work", one_at_a_time)
    tracemalloc.start()
    try:
        w = render_audio(seq)
        mix = tracemalloc.get_traced_memory()[1] - returned[0]
        midi_spectrogram(w)
    finally:
        tracemalloc.stop()
    pitch_classes, blocks = calls
    assert max(pitch_classes + [mix]) < 64 * 2**10
    # each block still allocates its [rows, 128] filterbank product: 129 rows here
    assert max(blocks) < 256 * 2**10


class CountingNumpy:
    """numpy, with the length of every np.sin argument recorded."""

    def __init__(self):
        self.sine_samples = []

    def __getattr__(self, name):
        return getattr(np, name)

    def sin(self, x, *args, **kwargs):
        self.sine_samples.append(len(x))
        return np.sin(x, *args, **kwargs)


def sine_samples_per_key_and_per_pitch(seq, sample_rate):
    """(the sum over distinct 2*pi*h*f0 keys of the longest note using each,
    the sum over pitches of the longest note times the pitch's partials)."""
    longest = {}
    for note in seq.notes:
        held = max(scalar_ticks_to_seconds(seq, note.offset_ticks)
                   - scalar_ticks_to_seconds(seq, note.onset_ticks), 1.0 / sample_rate)
        n = int(round((held + RELEASE_SECONDS) * sample_rate))
        longest[note.pitch] = max(longest.get(note.pitch, 0), n)
    per_key, per_pitch = {}, 0
    for pitch, n in longest.items():
        f0 = midi_pitch_hz(pitch)
        keys = [2 * np.pi * h * f0 for h in range(1, N_HARMONICS + 1) if h * f0 < sample_rate / 2]
        per_pitch += n * len(keys)
        for key in keys:
            per_key[key] = max(per_key.get(key, 0), n)
    return sum(per_key.values()), per_pitch


def test_each_distinct_partial_is_computed_once_at_its_longest_note(tmp_path, monkeypatch):
    """On each of the 16 performances of the seed-0 demo corpus. The saving
    varies by piece (24-34%), so the 0.75 bound is on the corpus total."""
    manifest = generate_corpus(SyntheticCorpusSpec(seed=0), tmp_path)
    counting = CountingNumpy()
    monkeypatch.setattr(s2a.synth, "np", counting)
    total, total_per_pitch = 0, 0
    for item in manifest["items"]:
        seq = parse_smf((tmp_path / item["performance"]).read_bytes())
        per_key, per_pitch = sine_samples_per_key_and_per_pitch(seq, DEFAULT_SAMPLE_RATE)
        counting.sine_samples.clear()
        render_audio(seq, DEFAULT_SAMPLE_RATE)
        assert sum(counting.sine_samples) == per_key
        total += per_key
        total_per_pitch += per_pitch
    assert total <= 0.75 * total_per_pitch


@pytest.mark.parametrize("field, value", [
    ("n_pieces", 1.0), ("notes_per_piece", "200"), ("n_performers", True), ("seed", 0.5),
])
def test_corpus_spec_field_types_checked(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SyntheticCorpusSpec(**{field: value})


def test_split_work_raises_the_workers_error_and_leaves_no_thread():
    threads = threading.active_count()
    done = []

    def fn(i):
        if i == 1:
            raise KeyError(i)
        done.append(i)

    with pytest.raises(KeyError):
        split_work(fn, [0, 1, 2, 3])
    assert threading.active_count() == threads
    assert done == [0, 2]


def test_split_work_runs_the_worker_under_the_callers_error_state():
    """The worker runs under the caller's np.errstate, so it handles an
    overflow as the caller asked."""
    states = {}

    def fn(i):
        states[i] = np.geterr()

    with np.errstate(all="ignore"):
        split_work(fn, [0, 1])
        want = np.geterr()
    assert states == {0: want, 1: want}


def test_render_reads_the_tempo_map_once():
    """8,000 notes, each under its own tempo event: one pass over the map,
    not two per note."""
    notes = tuple(NoteEvent(24 * i, 24, 21 + i % 88, 1 + i % 127) for i in range(8000))
    tempi = tuple(TempoEvent(24 * i, 200000 + 1000 * (i % 7)) for i in range(8000))
    seq = NoteSequence(ppq=96, notes=notes, tempi=tempi)
    start = time.monotonic()
    w = render_audio(seq, 4000)
    assert time.monotonic() - start < 10.0
    end = scalar_ticks_to_seconds(seq, notes[-1].offset_ticks) + RELEASE_SECONDS
    assert len(w.samples) == int(np.ceil(end * 4000)) + 1


class TestSpectrogram:
    def test_empty_waveform_has_no_frames(self):
        s = midi_spectrogram(Waveform(np.zeros(0), 24000))
        assert s.frames.shape == (0, 128)
        assert s.frame_rate == 24000 / HOP

    def test_silence(self):
        s = midi_spectrogram(Waveform(np.zeros(48000)))
        assert np.all(s.frames == 0)

    def test_pure_sine_argmax_69(self):
        sr = 24000
        t = np.arange(sr * 2) / sr
        w = Waveform(0.5 * np.sin(2 * np.pi * 440 * t), sr)
        s = midi_spectrogram(w)
        voiced = s.frames.sum(axis=1) > 0
        assert voiced.any()
        assert np.all(np.argmax(s.frames[voiced], axis=1) == 69)

    def test_amplitude_monotonicity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(24000) * 0.1
        s1 = midi_spectrogram(Waveform(x))
        s2 = midi_spectrogram(Waveform(2 * x))
        assert np.all(s2.frames >= s1.frames - 1e-12)

    # Blocks of exactly 128 rows would leave a 1-row tail at 129 and 257
    # frames and a 2-row one at 258; blocks alternate between two threads.
    @pytest.mark.parametrize("n_frames", [*range(1, 10), 127, 128, 129, 255, 256, 257, 258,
                                          383, 384, 385, 511, 512, 513, 767, 768, 769])
    def test_equals_whole_array_oracle(self, n_frames):
        rng = np.random.default_rng(n_frames)
        w = Waveform(rng.uniform(-1, 1, FRAME_LEN + (n_frames - 1) * HOP + n_frames % HOP))
        threads = threading.active_count()
        s = midi_spectrogram(w)
        assert threading.active_count() == threads
        assert s.frames.shape == (n_frames, 128)
        assert np.array_equal(s.frames, whole_array_spectrogram(w))

    @pytest.mark.parametrize("n_samples", [1, 511, 512, FRAME_LEN - 1])
    def test_shorter_than_a_frame_equals_whole_array_oracle(self, n_samples):
        w = Waveform(np.random.default_rng(n_samples).uniform(-1, 1, n_samples), 8000)
        assert np.array_equal(midi_spectrogram(w).frames, whole_array_spectrogram(w))

    def test_corpus_render_equals_whole_array_oracle(self, tmp_path):
        spec = SyntheticCorpusSpec(n_pieces=1, notes_per_piece=200, n_performers=1, seed=3)
        manifest = generate_corpus(spec, tmp_path)
        w = render_audio(parse_smf((tmp_path / manifest["items"][0]["performance"]).read_bytes()))
        assert np.array_equal(midi_spectrogram(w).frames, whole_array_spectrogram(w))

    def test_memory_does_not_grow_with_length(self):
        # 300 s is 14,059 frames: the result is 13.7 MiB, and the whole-array
        # STFT would hold over 400 MiB.
        w = Waveform(np.random.default_rng(0).uniform(-1, 1, 300 * 24000), 24000)
        tracemalloc.start()
        try:
            midi_spectrogram(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_filterbank_bins_touch_at_most_two_filters(self):
        bank = midi_filterbank(24000)
        touched = (bank > 0).sum(axis=0)
        assert touched.max() <= 2

    def test_filterbank_is_built_once_per_rate_and_read_only(self):
        bank = midi_filterbank(24000)
        assert midi_filterbank(24000) is bank
        with pytest.raises(ValueError):
            bank[69, 10] = 1.0
        assert np.array_equal(bank, midi_filterbank.__wrapped__(24000))
        assert list(inspect.signature(midi_filterbank).parameters) == ["sample_rate"]

    def test_filterbank_cache_is_bounded(self):
        size = midi_filterbank.cache_info().maxsize
        assert size is not None
        for rate in range(8000, 8000 + 2 * size):
            midi_filterbank(rate)
        assert midi_filterbank.cache_info().currsize <= size

    def test_filters_above_nyquist_are_zero(self):
        bank = midi_filterbank(8000)
        for m in range(128):
            if midi_pitch_hz(m) >= 4000:
                assert np.all(bank[m] == 0)


@pytest.mark.parametrize("matrix,width", [(Spectrogram, 128), (Chromagram, 12)])
def test_frames_must_be_t_by_width(matrix, width):
    """Both matrices hold float64 frames of their own width and no other shape."""
    name = matrix.__name__.lower()
    assert matrix(np.zeros((0, width), dtype=int), 10.0).frames.dtype == np.float64
    for shape in [(3, width - 1), (3, width + 1), (3, 140 - width), (width,), (1, 3, width)]:
        with pytest.raises(ValueError, match=rf"^{name} must be T x {width}, got \("):
            matrix(np.zeros(shape), 10.0)


class TestChromagram:
    def test_all_zero(self):
        s = midi_spectrogram(Waveform(np.zeros(48000)))
        c = chromagram(s)
        assert np.all(c.frames == 0)

    def test_a4_pitch_class(self):
        w = render_audio(one_note_seq(pitch=69))
        c = chromagram(midi_spectrogram(w))
        voiced = c.frames.sum(axis=1) > 0
        assert np.all(np.argmax(c.frames[voiced], axis=1) == 9)

    def test_voiced_rows_sum_to_one(self):
        w = render_audio(one_note_seq(pitch=60))
        c = chromagram(midi_spectrogram(w))
        sums = c.frames.sum(axis=1)
        voiced = sums > 0
        assert np.allclose(sums[voiced], 1.0)


class TestSegmentAudio:
    def test_exactly_one_segment(self):
        w = Waveform(np.zeros(int(9.6 * 24000)))
        assert len(segment_audio(w)) == 1

    def test_two_segments_no_overlap(self):
        w = Waveform(np.zeros(int(19.2 * 24000)))
        segs = segment_audio(w)
        assert len(segs) == 2
        assert all(len(s.samples) == int(9.6 * 24000) for s in segs)

    def test_overlap_starts(self):
        sr = 24000
        w = Waveform(np.arange(20 * sr, dtype=float))
        segs = segment_audio(w, 9.6, 0.5)
        starts = [int(s.samples[0]) for s in segs]
        assert starts == [0, int(9.1 * sr), int(18.2 * sr)]

    @pytest.mark.parametrize("seg_seconds, overlap_seconds", [
        (1.4 / 24000, 0.6 / 24000),  # 1-sample window and overlap: the step rounds to 0
        (0.4 / 24000, 0.0),  # a window under half a sample rounds to 0
        (1.0, 1.0),
        (1.0, -0.5),
        (1.0, float("inf")),
        (float("nan"), 0.0),
    ], ids=["zero-step", "half-sample-window", "overlap-equals-window", "negative-overlap",
            "infinite-overlap", "nan-window"])
    def test_lengths_are_checked_in_whole_samples(self, seg_seconds, overlap_seconds):
        with pytest.raises(ValueError, match="whole samples"):
            segment_audio(Waveform(np.zeros(10), 24000), seg_seconds, overlap_seconds)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_the_loop_oracle(self, data):
        sr = data.draw(st.sampled_from([1000, 24000]))
        off = st.floats(-0.45, 0.45)  # seconds round to the drawn whole samples
        seg = data.draw(st.integers(1, 40))
        overlap = data.draw(st.integers(0, seg - 1))
        kwargs = {"seg_seconds": data.draw(st.sampled_from([None, (seg + data.draw(off)) / sr])),
                  "overlap_seconds": data.draw(st.sampled_from(
                      [None, 0.0, max(0.0, (overlap + data.draw(off)) / sr)]))}
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        w = Waveform(np.arange(data.draw(st.integers(0, 200)), dtype=float), sr)
        got, want = segment_audio(w, **kwargs), loop_segment_audio(w, **kwargs)
        assert len(got) == len(want)
        for g, o in zip(got, want):
            assert g.sample_rate == o.sample_rate and np.array_equal(g.samples, o.samples)


def stitch_outcome(fn, a, b, **kwargs):
    """(lag, fallback, samples) of a stitch, or the ValueError type it raised."""
    try:
        result = fn(a, b, **kwargs)
    except ValueError:
        return ValueError
    return result.lag, result.fallback, result.waveform.samples.tolist()


@st.composite
def stitch_side(draw, n, rng):
    """n samples at sample rate 1000: silence or a constant (both tie every
    lag), a square wave (ties lags of opposite sign) or noise."""
    kind = draw(st.sampled_from(["zeros", "constant", "square", "noise"]))
    if kind == "zeros":
        return np.zeros(n)
    level = draw(st.floats(-1.0, 1.0))
    if kind == "constant":
        return np.full(n, level)
    if kind == "square":
        half, phase = draw(st.integers(1, 3)), draw(st.integers(0, 5))
        return np.where((np.arange(n) + phase) // half % 2, -level, level)
    return rng.uniform(-1.0, 1.0, n)


class TestConcatCrosscorr:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_equals_the_loop_oracle(self, data):
        sr = 1000
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_a, n_b = data.draw(st.integers(0, 120)), data.draw(st.integers(0, 120))
        a = data.draw(stitch_side(n_a, rng))
        if data.draw(st.booleans()):  # b starts with a copy of up to a's last 60 samples
            whole = np.concatenate([a, data.draw(stitch_side(n_b + 30, rng))])
            start = max(0, n_a - data.draw(st.integers(0, 60)))
            b = whole[start:start + n_b]
        else:
            b = data.draw(stitch_side(n_b, rng))
        off = st.floats(-0.45, 0.45)  # seconds round to the drawn whole samples
        kwargs = {"max_lag_seconds": (data.draw(st.integers(0, 20)) + data.draw(off)) / sr,
                  "fade_seconds": (data.draw(st.sampled_from([0, 0, 1, 5, 10])) + data.draw(off)) / sr,
                  "overlap_seconds": data.draw(st.sampled_from(
                      [None, 0.0, (data.draw(st.integers(0, 40)) + data.draw(off)) / sr]))}
        a, b = Waveform(a, sr), Waveform(b, sr)
        assert (stitch_outcome(concat_crosscorr, a, b, **kwargs)
                == stitch_outcome(loop_concat_crosscorr, a, b, **kwargs))

    @pytest.mark.parametrize("shift", [0, 120, 600, -300, 1199, -1200])
    def test_equals_the_loop_oracle_at_the_default_lengths(self, shift):
        x = self.make_signal(seed=2)
        n = len(x.samples)
        a = Waveform(x.samples[: n // 2], x.sample_rate)
        b = Waveform(x.samples[n // 2 - int(0.07 * x.sample_rate) + shift:], x.sample_rate)
        assert stitch_outcome(concat_crosscorr, a, b) == stitch_outcome(loop_concat_crosscorr, a, b)

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_lag_seconds": -0.01}, "fade and max lag must be >= 0"),
        ({"fade_seconds": -0.01}, "fade and max lag must be >= 0"),
        ({"overlap_seconds": float("inf")}, "whole samples"),
        ({"fade_seconds": float("nan")}, "whole samples"),
    ], ids=["negative-lag", "negative-fade", "infinite-overlap", "nan-fade"])
    def test_lengths_are_checked_in_whole_samples(self, kwargs, message):
        a = self.make_signal()
        with pytest.raises(ValueError, match=message):
            concat_crosscorr(a, a, **kwargs)

    def test_sample_rates_must_match(self):
        with pytest.raises(ValueError, match="^sample rates must match$"):
            concat_crosscorr(self.make_signal(), self.make_signal(sr=16000))

    def test_no_segments_to_stitch(self):
        with pytest.raises(ValueError, match="^no segments to stitch$"):
            stitch_segments([])

    def make_signal(self, seconds=3.0, sr=24000, seed=0):
        rng = np.random.default_rng(seed)
        t = np.arange(int(seconds * sr)) / sr
        x = 0.4 * np.sin(2 * np.pi * 220 * t) + 0.2 * np.sin(2 * np.pi * 331 * t)
        return Waveform(x + 0.05 * rng.standard_normal(len(t)), sr)

    def test_exact_tail_copy_gives_zero_lag(self):
        x = self.make_signal()
        sr = x.sample_rate
        n = len(x.samples)
        a = Waveform(x.samples[: n // 2], sr)
        b = Waveform(x.samples[n // 2 - int(0.07 * sr):], sr)
        result = concat_crosscorr(a, b, max_lag_seconds=0.05, fade_seconds=0.02)
        assert result.lag == 0
        assert not result.fallback

    def test_recovers_injected_shift(self):
        x = self.make_signal(seed=1)
        sr = x.sample_rate
        n = len(x.samples)
        overlap = int(0.07 * sr)
        for k in (120, 600, -300):
            # b's content starts k samples later than the nominal overlap
            b = Waveform(x.samples[n // 2 - overlap + k:], sr)
            a = Waveform(x.samples[: n // 2], sr)
            result = concat_crosscorr(a, b, max_lag_seconds=0.05, fade_seconds=0.02)
            assert result.lag == -k

    def test_short_inputs_fall_back(self):
        sr = 24000
        a = Waveform(np.ones(600), sr)
        b = Waveform(np.ones(600), sr)
        result = concat_crosscorr(a, b, max_lag_seconds=0.05, fade_seconds=0.02)
        assert result.fallback

    def test_stitched_matches_continuous_outside_fades(self):
        seq = NoteSequence(
            ppq=96,
            notes=tuple(
                NoteEvent(i * 96, 72, 48 + (i * 7) % 40, 40 + (i * 13) % 80)
                for i in range(64)
            ),
            tempi=(TempoEvent(0, 500000),),
        )
        continuous = render_audio(seq)
        assert continuous.duration_seconds > 19.2
        fade = 0.02
        overlap = 0.5
        segs = segment_audio(continuous, 9.6, overlap)
        stitched = stitch_segments(segs, max_lag_seconds=0.05, fade_seconds=fade,
                                   overlap_seconds=overlap)
        n = min(len(stitched.samples), len(continuous.samples))
        sr = continuous.sample_rate
        # at zero lag the k-th join's crossfade ends at S + (k-1)(S - V)
        seg_n = int(9.6 * sr)
        step = seg_n - int(overlap * sr)
        fade_n = int(fade * sr)
        mask = np.ones(n, dtype=bool)
        for k in range(1, len(segs)):
            join = seg_n + (k - 1) * step
            mask[max(0, join - fade_n - 2):min(n, join + 2)] = False
        diff = stitched.samples[:n][mask] - continuous.samples[:n][mask]
        rms = np.sqrt(np.mean(diff * diff))
        assert rms < 1e-3


    def test_fade_over_same_material_keeps_the_peak(self):
        # 40 notes; a loud chord sounds across the first join at 9.6 s
        notes = [NoteEvent(i * 48, 96, 48 + (i * 7) % 30, 60) for i in range(36)]
        notes += [NoteEvent(38 * 48, 96, pitch, 127) for pitch in (48, 55, 60, 64)]
        continuous = render_audio(NoteSequence(ppq=96, notes=tuple(notes),
                                               tempi=(TempoEvent(0, 500000),)))
        sr, fade, overlap = continuous.sample_rate, 0.02, 0.5
        segs = segment_audio(continuous, 9.6, overlap)
        assert len(segs) == 2
        result = concat_crosscorr(segs[0], segs[1], max_lag_seconds=0.05,
                                  fade_seconds=fade, overlap_seconds=overlap)
        assert result.lag == 0 and not result.fallback
        join = len(segs[0].samples)
        region = slice(join - int(round(fade * sr)), join)
        stitched_peak = np.max(np.abs(result.waveform.samples[region]))
        assert stitched_peak > 0.5
        assert stitched_peak <= np.max(np.abs(continuous.samples[region])) + 1e-12
        assert np.max(np.abs(result.waveform.samples)) <= PEAK_LEVEL + 1e-12

    def test_zero_fade_keeps_all_of_a(self):
        x = self.make_signal()
        sr, n = x.sample_rate, len(x.samples)
        a = Waveform(x.samples[: n // 2], sr)
        b = Waveform(x.samples[n // 2 - int(0.05 * sr):], sr)
        result = concat_crosscorr(a, b, max_lag_seconds=0.05, fade_seconds=0.0)
        assert result.lag == 0 and not result.fallback
        assert np.array_equal(result.waveform.samples, x.samples)

    def test_uncorrelated_join_keeps_equal_power_fade(self):
        rng = np.random.default_rng(4)
        sr, fade = 24000, 480
        a = Waveform(rng.standard_normal(sr), sr)
        b = Waveform(rng.standard_normal(sr), sr)
        result = concat_crosscorr(a, b, max_lag_seconds=0.05, fade_seconds=0.02)
        assert not result.fallback
        join = int(round(0.07 * sr)) + result.lag
        theta = (np.arange(fade) + 0.5) / fade * (np.pi / 2)
        want = (a.samples[-fade:] * np.cos(theta)
                + b.samples[join - fade:join] * np.sin(theta))
        got = result.waveform.samples[len(a.samples) - fade:len(a.samples)]
        assert np.array_equal(got, want)

def test_matrix_export_round_trip(tmp_path):
    from s2a.synth import load_matrix, save_matrix

    w = render_audio(one_note_seq(pitch=60, seconds=0.5))
    spec = midi_spectrogram(w)
    base = str(tmp_path / "spec")
    save_matrix(spec.frames, spec.frame_rate, "spectrogram", base)
    frames, rate, kind = load_matrix(base)
    assert kind == "spectrogram"
    assert rate == spec.frame_rate
    assert frames.shape == spec.frames.shape
    assert np.allclose(frames, spec.frames, atol=1e-6)


class TestWav:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        w = Waveform(np.clip(rng.standard_normal(1000) * 0.2, -1, 1), 24000)
        again = read_wav(write_wav(w))
        assert again.sample_rate == 24000
        assert np.max(np.abs(again.samples - w.samples)) < 1.0 / 32767

    def test_stereo_rejected(self):
        buf = io.BytesIO()
        with wave.open(buf, "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(24000)
            wf.writeframes(bytes(8))
        with pytest.raises(ValueError, match="^only 16-bit mono WAV is supported$"):
            read_wav(buf.getvalue())

    def test_deterministic_bytes(self):
        w = render_audio(one_note_seq())
        assert write_wav(w) == write_wav(w)
